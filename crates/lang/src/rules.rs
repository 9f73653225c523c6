//! Table rule sets — the third Meissa input (Fig. 2).
//!
//! Rules are supplied as a separate text document (in production they come
//! from the control plane; in the evaluation they are collected from
//! deployed switches or generated). Format:
//!
//! ```text
//! rules <table> {
//!   <key>, <key>, … => <action>(<args>);      # one line per rule
//! }
//! ```
//!
//! with key forms matching the table's declared match kinds:
//!
//! * exact:   `42`, `0x0800`, `10.1.1.1`
//! * lpm:     `10.0.0.0/8`
//! * ternary: `0x8100 &&& 0xff00`, or `_` for a full wildcard
//! * range:   `80..443`
//!
//! Rule order is priority order (first match wins), like P4 ternary tables.

use crate::lexer::{lex, Tok, Token};
use crate::parser::ParseError;
use std::collections::HashMap;

/// One key cell of a rule.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum KeyMatch {
    /// Exact value.
    Exact(u128),
    /// Prefix match: value plus prefix length.
    Prefix(u128, u16),
    /// Ternary: value plus mask.
    Ternary(u128, u128),
    /// Inclusive range.
    Range(u128, u128),
    /// Wildcard (`_`).
    Any,
}

/// One installed table rule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Rule {
    /// Key cells, in the table's declared key order.
    pub keys: Vec<KeyMatch>,
    /// Action to run on match.
    pub action: String,
    /// Constant action arguments.
    pub args: Vec<u128>,
}

/// A full rule set: table name → rules in priority order.
#[derive(Clone, Debug, Default)]
pub struct RuleSet {
    tables: HashMap<String, Vec<Rule>>,
    /// Source lines of code of the rule document (Table 1 reports rule-set
    /// scale in LOC: "set-4 is more than 200,000 LOC").
    pub loc: usize,
}

impl RuleSet {
    /// Creates an empty rule set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rules for a table (empty slice if none installed).
    pub fn rules_for(&self, table: &str) -> &[Rule] {
        self.tables.get(table).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Installs a rule programmatically (used by the suite generators).
    pub fn push(&mut self, table: &str, rule: Rule) {
        self.tables.entry(table.to_string()).or_default().push(rule);
        self.loc += 1;
    }

    /// Total number of rules across all tables.
    pub fn total_rules(&self) -> usize {
        self.tables.values().map(Vec::len).sum()
    }

    /// Table names with at least one rule.
    pub fn table_names(&self) -> impl Iterator<Item = &str> {
        self.tables.keys().map(String::as_str)
    }

    /// Renders the rule set back to its text format (round-trips through
    /// [`parse_rules`]); used to materialize generated rule sets.
    pub fn to_text(&self) -> String {
        let mut names: Vec<&String> = self.tables.keys().collect();
        names.sort();
        let mut out = String::new();
        for name in names {
            out.push_str(&format!("rules {name} {{\n"));
            for r in &self.tables[name] {
                let keys: Vec<String> = r
                    .keys
                    .iter()
                    .map(|k| match k {
                        KeyMatch::Exact(v) => format!("{v}"),
                        KeyMatch::Prefix(v, l) => format!("0x{v:x}/{l}"),
                        KeyMatch::Ternary(v, m) => format!("0x{v:x} &&& 0x{m:x}"),
                        KeyMatch::Range(a, b) => format!("{a}..{b}"),
                        KeyMatch::Any => "_".to_string(),
                    })
                    .collect();
                let args: Vec<String> = r.args.iter().map(u128::to_string).collect();
                out.push_str(&format!(
                    "  {} => {}({});\n",
                    keys.join(", "),
                    r.action,
                    args.join(", ")
                ));
            }
            out.push_str("}\n");
        }
        out
    }
}

/// Parses a rule document.
pub fn parse_rules(src: &str) -> Result<RuleSet, ParseError> {
    let tokens = lex(src)?;
    let mut p = RulesParser {
        tokens,
        pos: 0,
    };
    let mut set = p.rule_set()?;
    set.loc = crate::count_loc(src);
    Ok(set)
}

struct RulesParser {
    tokens: Vec<Token>,
    pos: usize,
}

impl RulesParser {
    fn peek(&self) -> &Tok {
        &self.tokens[self.pos].kind
    }

    fn line(&self) -> u32 {
        self.tokens[self.pos].line
    }

    fn bump(&mut self) -> Tok {
        let t = self.tokens[self.pos].kind.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            message: msg.into(),
            line: self.line(),
        })
    }

    fn expect(&mut self, tok: Tok) -> Result<(), ParseError> {
        if *self.peek() == tok {
            self.bump();
            Ok(())
        } else {
            self.err(format!("expected {tok}, found {}", self.peek()))
        }
    }

    fn eat(&mut self, tok: Tok) -> bool {
        if *self.peek() == tok {
            self.bump();
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.peek().clone() {
            Tok::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => self.err(format!("expected identifier, found {other}")),
        }
    }

    fn num(&mut self) -> Result<u128, ParseError> {
        match *self.peek() {
            Tok::Num(n) => {
                self.bump();
                Ok(n)
            }
            ref other => self.err(format!("expected number, found {other}")),
        }
    }

    fn rule_set(&mut self) -> Result<RuleSet, ParseError> {
        let mut set = RuleSet::new();
        while *self.peek() != Tok::Eof {
            match self.ident()?.as_str() {
                "rules" => {}
                other => return self.err(format!("expected `rules`, found `{other}`")),
            }
            let table = self.ident()?;
            self.expect(Tok::LBrace)?;
            while !self.eat(Tok::RBrace) {
                let rule = self.rule()?;
                set.tables.entry(table.clone()).or_default().push(rule);
            }
        }
        Ok(set)
    }

    fn rule(&mut self) -> Result<Rule, ParseError> {
        let mut keys = vec![self.key()?];
        while self.eat(Tok::Comma) {
            keys.push(self.key()?);
        }
        self.expect(Tok::FatArrow)?;
        let action = self.ident()?;
        self.expect(Tok::LParen)?;
        let mut args = Vec::new();
        if !self.eat(Tok::RParen) {
            loop {
                args.push(self.num()?);
                if !self.eat(Tok::Comma) {
                    self.expect(Tok::RParen)?;
                    break;
                }
            }
        }
        self.expect(Tok::Semi)?;
        Ok(Rule { keys, action, args })
    }

    fn key(&mut self) -> Result<KeyMatch, ParseError> {
        if self.eat(Tok::Underscore) {
            return Ok(KeyMatch::Any);
        }
        let v = self.num()?;
        if self.eat(Tok::Slash) {
            let len = self.num()? as u16;
            Ok(KeyMatch::Prefix(v, len))
        } else if self.eat(Tok::TernaryMask) {
            Ok(KeyMatch::Ternary(v, self.num()?))
        } else if self.eat(Tok::DotDot) {
            Ok(KeyMatch::Range(v, self.num()?))
        } else {
            Ok(KeyMatch::Exact(v))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_all_key_forms() {
        let src = r#"
            rules route {
              10.0.0.0/8 => set_port(1);
              0x0800 &&& 0xff00 => set_port(2);
              80..443 => mark();
              42 => set_port(3);
              _ => drop_();
            }
        "#;
        let rs = parse_rules(src).unwrap();
        let rules = rs.rules_for("route");
        assert_eq!(rules.len(), 5);
        assert_eq!(rules[0].keys[0], KeyMatch::Prefix(0x0a000000, 8));
        assert_eq!(rules[1].keys[0], KeyMatch::Ternary(0x800, 0xff00));
        assert_eq!(rules[2].keys[0], KeyMatch::Range(80, 443));
        assert_eq!(rules[3].keys[0], KeyMatch::Exact(42));
        assert_eq!(rules[4].keys[0], KeyMatch::Any);
        assert_eq!(rules[0].action, "set_port");
        assert_eq!(rules[0].args, vec![1]);
        assert!(rules[2].args.is_empty());
    }

    #[test]
    fn multi_key_rules() {
        let src = "rules acl { 10.0.0.1, 10.0.0.2, 6 => permit(); _, _, _ => deny(); }";
        let rs = parse_rules(src).unwrap();
        let rules = rs.rules_for("acl");
        assert_eq!(rules[0].keys.len(), 3);
        assert_eq!(rules[1].keys, vec![KeyMatch::Any; 3]);
    }

    #[test]
    fn multiple_tables() {
        let src = "rules a { 1 => f(); } rules b { 2 => g(); 3 => g(); }";
        let rs = parse_rules(src).unwrap();
        assert_eq!(rs.rules_for("a").len(), 1);
        assert_eq!(rs.rules_for("b").len(), 2);
        assert_eq!(rs.total_rules(), 3);
        assert!(rs.rules_for("missing").is_empty());
    }

    #[test]
    fn text_roundtrip() {
        let mut rs = RuleSet::new();
        rs.push(
            "t1",
            Rule {
                keys: vec![
                    KeyMatch::Prefix(0x0a000000, 8),
                    KeyMatch::Range(1, 9),
                    KeyMatch::Ternary(0x10, 0xf0),
                    KeyMatch::Exact(7),
                    KeyMatch::Any,
                ],
                action: "go".into(),
                args: vec![1, 2],
            },
        );
        let text = rs.to_text();
        let back = parse_rules(&text).unwrap();
        assert_eq!(back.rules_for("t1"), rs.rules_for("t1"));
    }

    #[test]
    fn rule_order_is_preserved() {
        let src = "rules t { 1 => a(); 2 => b(); 3 => c(); }";
        let rs = parse_rules(src).unwrap();
        let actions: Vec<&str> = rs.rules_for("t").iter().map(|r| r.action.as_str()).collect();
        assert_eq!(actions, vec!["a", "b", "c"]);
    }

    #[test]
    fn error_on_garbage() {
        assert!(parse_rules("rules t { => f(); }").is_err());
        assert!(parse_rules("notrules t { }").is_err());
    }

    #[test]
    fn loc_counts_rule_lines() {
        let src = "rules t {\n  1 => a();\n  2 => b();\n}\n";
        let rs = parse_rules(src).unwrap();
        assert_eq!(rs.loc, 4);
    }
}
