//! The five workloads and the seeded inputs they run on.
//!
//! Every workload is a suite gateway program (`meissa_suite::gw`) rendered
//! to P4lite source and rule text. The seed only reorders rules inside
//! blocks whose order cannot matter, so the program's behaviour, template
//! count and rule coverage are the same at every seed; what changes is the
//! order in which the engine meets the rules.

use meissa_lang::ast::MatchKind;
use meissa_lang::{parse_program, parse_rules, KeyMatch};
use meissa_suite::gw::{gw_rules, gw_source, GwScale};
use std::collections::HashMap;

/// How a workload drives its program to verdicts.
#[derive(Clone, Copy, Debug)]
pub enum Kind {
    /// Closed loop of in-process campaigns: source text → `Meissa::run` →
    /// `TestDriver::run` against a faithful `SwitchTarget`, one at a time.
    Campaign,
    /// `WireDriver::soak` segments against a loopback agent over one
    /// binary-framed connection, optionally fuzzing every packet.
    Soak { fuzz: bool },
}

/// Outputs that must not change across seeds or commits, recorded at seed
/// 0. A mismatch means the benchmark no longer measures the same work.
#[derive(Clone, Copy, Debug)]
pub struct Golden {
    pub templates: usize,
    pub rules_hit: u64,
    pub rules_total: u64,
    /// Executed cases of one campaign (one packet per template plus one
    /// per satisfiable intent).
    pub cases: usize,
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub level: u8,
    pub eips: usize,
    pub kind: Kind,
    pub golden: Golden,
}

const GW4: Golden = Golden {
    templates: 5205,
    rules_hit: 356,
    rules_total: 476,
    cases: 10410,
};
const GW3: Golden = Golden {
    templates: 885,
    rules_hit: 119,
    rules_total: 119,
    cases: 1770,
};
const GW1_WIDE: Golden = Golden {
    templates: 2051,
    rules_hit: 2048,
    rules_total: 2048,
    cases: 4102,
};

/// The workloads, in `all` order. Names are cited by later changes; keep
/// them stable.
pub const WORKLOADS: [Workload; 5] = [
    // The paper's headline program: summary wins here and instantiation
    // is about half of the wait.
    Workload {
        name: "gw4-verdicts",
        level: 4,
        eips: 32,
        kind: Kind::Campaign,
        golden: GW4,
    },
    // Summary is almost all of generation and loses to plain DFS; the
    // workload where summary improvements must show.
    Workload {
        name: "gw3-verdicts",
        level: 3,
        eips: 16,
        kind: Kind::Campaign,
        golden: GW3,
    },
    // One pipeline, so summary is bypassed: DFS, SMT and the parallel
    // explorer do the generation, and 1024-entry tables make instantiation
    // and table lookups the costliest per case.
    Workload {
        name: "gw1-wide-verdicts",
        level: 1,
        eips: 1024,
        kind: Kind::Campaign,
        golden: GW1_WIDE,
    },
    // The wire codec, the agent's interpreter and the client reference do
    // the work; the solver runs only during set-up.
    Workload {
        name: "gw3-soak",
        level: 3,
        eips: 16,
        kind: Kind::Soak { fuzz: false },
        golden: GW3,
    },
    // The same layers on mutated packets, which leave the parse fast path.
    Workload {
        name: "gw3-fuzz-soak",
        level: 3,
        eips: 16,
        kind: Kind::Soak { fuzz: true },
        golden: GW3,
    },
];

pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// Source and rule text for one run, plus the hash that ties every result
/// row to the exact inputs it was measured on.
pub struct Inputs {
    pub source: String,
    pub rules: String,
    pub hash: String,
}

pub fn inputs(w: &Workload, seed: u64) -> Result<Inputs, String> {
    let source = gw_source(w.level);
    let rules = permute_rules(&source, &gw_rules(w.level, GwScale { eips: w.eips }), seed)?;
    let hash = format!(
        "{:016x}",
        fnv1a(&[source.as_bytes(), &[0xff], rules.as_bytes()].concat())
    );
    Ok(Inputs {
        source,
        rules,
        hash,
    })
}

/// The fuzz-mutation seed of a soak, derived from the run seed.
pub fn fuzz_seed(seed: u64) -> u64 {
    SplitMix(seed ^ 0xF022_5EED).next()
}

pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Shuffles the rule lines of every `rules` block whose table keys are all
/// `exact` and whose rules are pairwise disjoint. Disjoint rules never
/// compete for a packet, so their order carries no priority. Seed 0
/// returns the suite's canonical text unchanged.
pub fn permute_rules(source: &str, rules: &str, seed: u64) -> Result<String, String> {
    if seed == 0 {
        return Ok(rules.to_string());
    }
    let program = parse_program(source).map_err(|e| format!("permute: {e}"))?;
    let parsed = parse_rules(rules).map_err(|e| format!("permute: {e}"))?;
    let all_exact: HashMap<&str, bool> = program
        .tables
        .iter()
        .map(|t| {
            (
                t.name.as_str(),
                t.keys.iter().all(|(_, k)| *k == MatchKind::Exact),
            )
        })
        .collect();
    let shufflable = |table: &str| {
        all_exact.get(table).copied().unwrap_or(false) && disjoint(parsed.rules_for(table))
    };

    let mut out = String::with_capacity(rules.len());
    let mut lines = rules.lines();
    while let Some(line) = lines.next() {
        out.push_str(line);
        out.push('\n');
        let Some(table) = line
            .trim()
            .strip_prefix("rules ")
            .and_then(|r| r.strip_suffix('{'))
        else {
            continue;
        };
        let table = table.trim();
        let mut body: Vec<&str> = Vec::new();
        let mut close = None;
        for l in lines.by_ref() {
            if l.trim() == "}" {
                close = Some(l);
                break;
            }
            body.push(l);
        }
        // Only blocks of one complete rule per line are reordered.
        if shufflable(table)
            && body
                .iter()
                .all(|l| l.contains("=>") && l.trim_end().ends_with(';'))
        {
            let mut rng = SplitMix(seed ^ fnv1a(table.as_bytes()));
            for i in (1..body.len()).rev() {
                body.swap(i, (rng.next() % (i as u64 + 1)) as usize);
            }
        }
        for l in body.into_iter().chain(close) {
            out.push_str(l);
            out.push('\n');
        }
    }
    Ok(out)
}

/// True when no packet can match two of `rules` (exact or wildcard cells
/// only; anything else counts as overlapping).
fn disjoint(rules: &[meissa_lang::Rule]) -> bool {
    let cells_overlap = |a: &KeyMatch, b: &KeyMatch| match (a, b) {
        (KeyMatch::Exact(x), KeyMatch::Exact(y)) => x == y,
        _ => true,
    };
    rules.iter().enumerate().all(|(i, a)| {
        rules[i + 1..]
            .iter()
            .all(|b| !a.keys.iter().zip(&b.keys).all(|(x, y)| cells_overlap(x, y)))
    })
}

/// splitmix64: a fixed generator, so a seed names the same inputs on every
/// commit.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use meissa_core::Meissa;
    use meissa_lang::compile;

    #[test]
    fn permutation_keeps_template_count_and_changes_text() {
        let src = gw_source(1);
        let canonical = gw_rules(1, GwScale { eips: 16 });
        let templates = |rules: &str| {
            let cp = compile(&parse_program(&src).unwrap(), &parse_rules(rules).unwrap()).unwrap();
            Meissa::new().run(&cp).templates.len()
        };
        let expected = templates(&canonical);
        for seed in 1..=3 {
            let permuted = permute_rules(&src, &canonical, seed).unwrap();
            assert_ne!(permuted, canonical, "seed {seed} reorders some block");
            let mut a: Vec<&str> = permuted.lines().collect();
            let mut b: Vec<&str> = canonical.lines().collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "seed {seed} only reorders lines");
            assert_eq!(templates(&permuted), expected, "seed {seed}");
        }
        assert_eq!(permute_rules(&src, &canonical, 0).unwrap(), canonical);
    }

    #[test]
    fn overlapping_or_non_exact_blocks_keep_their_order() {
        let src = gw_source(3);
        let canonical = gw_rules(3, GwScale { eips: 16 });
        let permuted = permute_rules(&src, &canonical, 7).unwrap();
        let block = |text: &str, table: &str| {
            let start = text.find(&format!("rules {table} {{")).unwrap();
            text[start..start + text[start..].find('}').unwrap()].to_string()
        };
        // lpm and ternary tables carry priority: never reordered.
        assert_eq!(
            block(&permuted, "underlay_route"),
            block(&canonical, "underlay_route")
        );
        assert_eq!(
            block(&permuted, "acl_filter"),
            block(&canonical, "acl_filter")
        );
        assert_ne!(
            block(&permuted, "eip_lookup"),
            block(&canonical, "eip_lookup")
        );
    }

    #[test]
    fn disjointness_respects_wildcards() {
        let rule = |keys: Vec<KeyMatch>| meissa_lang::Rule {
            keys,
            action: "a".into(),
            args: vec![],
        };
        let exact = |v| KeyMatch::Exact(v);
        assert!(disjoint(&[
            rule(vec![exact(1), exact(2)]),
            rule(vec![exact(1), exact(3)])
        ]));
        assert!(disjoint(&[
            rule(vec![exact(0), KeyMatch::Any]),
            rule(vec![exact(1), exact(3)])
        ]));
        assert!(!disjoint(&[
            rule(vec![exact(1), KeyMatch::Any]),
            rule(vec![exact(1), exact(3)])
        ]));
    }

    #[test]
    fn inputs_hash_tracks_the_seed() {
        let w = workload("gw3-verdicts").unwrap();
        assert_eq!(inputs(&w, 0).unwrap().hash, inputs(&w, 0).unwrap().hash);
        assert_ne!(inputs(&w, 0).unwrap().hash, inputs(&w, 1).unwrap().hash);
    }
}
