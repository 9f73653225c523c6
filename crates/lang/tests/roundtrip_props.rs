//! Property tests for the frontend's rule-text round-trip and LOC count.

use meissa_lang::{parse_rules, KeyMatch, Rule, RuleSet};
use meissa_testkit::prop::{self, G};
use meissa_testkit::prop_assert_eq;

fn arb_key(g: &mut G) -> KeyMatch {
    match g.index(5) {
        0 => KeyMatch::Exact(g.u64() as u128),
        1 => KeyMatch::Prefix(g.u64() as u128, g.range(0..=32u16)),
        2 => KeyMatch::Ternary(g.u64() as u128, g.u64() as u128),
        3 => {
            let (a, b) = (g.u32(), g.u32());
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            KeyMatch::Range(lo as u128, hi as u128)
        }
        _ => KeyMatch::Any,
    }
}

fn arb_rule(g: &mut G) -> Rule {
    let keys = (0..g.len(1, 3)).map(|_| arb_key(g)).collect();
    let action = g.ident(8);
    let args = (0..g.len(0, 2)).map(|_| g.u32() as u128).collect();
    Rule { keys, action, args }
}

/// `RuleSet::to_text` → `parse_rules` is the identity on rules.
#[test]
fn rule_set_text_roundtrip() {
    prop::check(prop::DEFAULT_CASES, |g| {
        let rules: Vec<Rule> = (0..g.len(1, 7)).map(|_| arb_rule(g)).collect();
        let mut set = RuleSet::new();
        for r in &rules {
            set.push("t", r.clone());
        }
        let text = set.to_text();
        let back = parse_rules(&text).map_err(|e| format!("{e}\n{text}"))?;
        prop_assert_eq!(back.rules_for("t"), set.rules_for("t"));
        Ok(())
    });
}

/// LOC counting is insensitive to blank-line padding.
#[test]
fn loc_ignores_padding() {
    prop::check(prop::DEFAULT_CASES, |g| {
        let n = g.len(0, 9);
        let body = "header h { a: 8; }\naction f() { }\n";
        let padded = format!("{}{}", "\n".repeat(n), body);
        prop_assert_eq!(meissa_lang::count_loc(&padded), meissa_lang::count_loc(body));
        Ok(())
    });
}
