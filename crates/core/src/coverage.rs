//! Coverage accounting (§3.4).
//!
//! Path coverage is the paper's headline metric — Definition 3 — and the
//! strongest of the standard metrics: full path coverage implies full
//! branch and statement coverage. These helpers measure what a set of
//! templates covers on a CFG, used by the test driver's reports and by the
//! coverage-guarantee property tests.

use crate::template::TestTemplate;
use meissa_ir::{Cfg, NodeId, RuleArm};
use meissa_testkit::json::{Json, ToJson};
use std::collections::{BTreeMap, HashSet};

/// Coverage measured for a template set against a CFG.
#[derive(Clone, Debug, PartialEq)]
pub struct CoverageReport {
    /// Distinct complete paths covered.
    pub paths_covered: usize,
    /// Statement (node) coverage over reachable nodes: covered / total.
    pub statements_covered: usize,
    /// Total reachable statements.
    pub statements_total: usize,
    /// Branch edges covered (edges out of multi-successor nodes).
    pub branches_covered: usize,
    /// Total branch edges from reachable multi-successor nodes.
    pub branches_total: usize,
}

impl CoverageReport {
    /// Statement coverage ratio in [0, 1].
    pub fn statement_ratio(&self) -> f64 {
        if self.statements_total == 0 {
            1.0
        } else {
            self.statements_covered as f64 / self.statements_total as f64
        }
    }

    /// Branch coverage ratio in [0, 1].
    pub fn branch_ratio(&self) -> f64 {
        if self.branches_total == 0 {
            1.0
        } else {
            self.branches_covered as f64 / self.branches_total as f64
        }
    }
}

/// Measures coverage of `templates` over `cfg` (the graph they were
/// generated from).
pub fn measure(cfg: &Cfg, templates: &[TestTemplate]) -> CoverageReport {
    let mut covered_nodes: HashSet<NodeId> = HashSet::new();
    let mut covered_edges: HashSet<(NodeId, NodeId)> = HashSet::new();
    let mut distinct_paths: HashSet<&[NodeId]> = HashSet::new();
    for t in templates {
        distinct_paths.insert(&t.path);
        covered_nodes.extend(t.path.iter().copied());
        for w in t.path.windows(2) {
            covered_edges.insert((w[0], w[1]));
        }
    }

    let reachable = cfg.reachable();
    // Statement coverage counts only nodes carrying real statements; no-op
    // markers are structural.
    let real: Vec<NodeId> = reachable
        .iter()
        .copied()
        .filter(|&n| !cfg.stmt(n).is_nop())
        .collect();
    let statements_covered = real.iter().filter(|n| covered_nodes.contains(n)).count();

    let mut branches_total = 0;
    let mut branches_covered = 0;
    for &n in &reachable {
        let succ = cfg.succ(n);
        if succ.len() > 1 {
            for &s in succ {
                branches_total += 1;
                if covered_edges.contains(&(n, s)) {
                    branches_covered += 1;
                }
            }
        }
    }

    CoverageReport {
        paths_covered: distinct_paths.len(),
        statements_covered,
        statements_total: real.len(),
        branches_covered,
        branches_total,
    }
}

/// Per-table rule-hit accounting for one run.
///
/// A table's *arms* are its installed rules (0-based, priority order) plus
/// the miss arm (default action). A hit is one template whose path
/// traverses a node attributed to that arm — attribution comes from the
/// frontend's [`RuleArm`] marks, threaded through code summary onto the
/// summarized trie (see `ir::cfg::RuleSite`), so counts are exact on either
/// graph.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TableCoverage {
    /// Hit count per installed rule index. Every installed rule appears,
    /// with count 0 when unhit.
    pub rules: BTreeMap<u32, u64>,
    /// Hits on the miss arm (no rule matched).
    pub miss_hits: u64,
    /// Whether the table has a miss arm in the graph at all.
    pub has_miss: bool,
}

impl TableCoverage {
    /// True when every installed rule was hit (zero-rule tables are full
    /// once their miss arm fires).
    pub fn is_full(&self) -> bool {
        if self.rules.is_empty() {
            !self.has_miss || self.miss_hits > 0
        } else {
            self.rules.values().all(|&h| h > 0)
        }
    }
}

/// Rule-granular coverage for a whole run: per-table hit maps, the unit the
/// run ledger persists and `meissa-trace diff` compares.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RuleCoverage {
    /// Per-table accounting, keyed by source-level table name.
    pub tables: BTreeMap<String, TableCoverage>,
}

impl RuleCoverage {
    /// Total installed rules across all tables.
    pub fn rules_total(&self) -> u64 {
        self.tables.values().map(|t| t.rules.len() as u64).sum()
    }

    /// Installed rules hit at least once.
    pub fn rules_hit(&self) -> u64 {
        self.tables
            .values()
            .map(|t| t.rules.values().filter(|&&h| h > 0).count() as u64)
            .sum()
    }

    /// Number of tables in the program.
    pub fn tables_total(&self) -> u64 {
        self.tables.len() as u64
    }

    /// Tables whose every installed rule was hit.
    pub fn tables_full(&self) -> u64 {
        self.tables.values().filter(|t| t.is_full()).count() as u64
    }

    /// Builds a coverage map from flat per-arm counts (the shape a live
    /// [`RuleTally`](../../meissa_dataplane) snapshot yields).
    pub fn from_arm_counts<'a, I>(counts: I) -> RuleCoverage
    where
        I: IntoIterator<Item = (&'a str, RuleArm, u64)>,
    {
        let mut cov = RuleCoverage::default();
        for (table, arm, n) in counts {
            let t = cov.tables.entry(table.to_string()).or_default();
            match arm {
                RuleArm::Rule(i) => {
                    *t.rules.entry(i).or_insert(0) += n;
                }
                RuleArm::Miss => {
                    t.has_miss = true;
                    t.miss_hits += n;
                }
            }
        }
        cov
    }
}

impl ToJson for RuleCoverage {
    fn to_json(&self) -> Json {
        Json::Arr(
            self.tables
                .iter()
                .map(|(name, t)| {
                    Json::Obj(vec![
                        ("table".into(), name.to_json()),
                        (
                            "rules".into(),
                            Json::Arr(
                                t.rules
                                    .iter()
                                    .map(|(&i, &h)| {
                                        Json::Arr(vec![
                                            Json::UInt(i as u128),
                                            Json::UInt(h as u128),
                                        ])
                                    })
                                    .collect(),
                            ),
                        ),
                        ("miss".into(), Json::UInt(t.miss_hits as u128)),
                        ("has_miss".into(), t.has_miss.to_json()),
                    ])
                })
                .collect(),
        )
    }
}

/// Content hash of a program: FNV-1a over the CFG's canonical (byte-stable)
/// JSON text. Two runs with the same `program_hash` analyzed the same
/// graph, so their counters are directly comparable.
pub fn program_hash(cfg: &Cfg) -> String {
    meissa_testkit::obs::ledger::content_hash_hex(cfg.to_json_text().as_bytes())
}

/// Content hash of the installed rule set: FNV-1a over the sorted
/// `(table, arm, raw-guard)` tuples of every rule site in the graph.
/// Insensitive to summarization (sites survive on orphaned nodes) and to
/// node numbering; sensitive to any rule addition, removal, or match
/// rewrite.
pub fn rule_set_hash(cfg: &Cfg) -> String {
    let mut entries: Vec<String> = Vec::new();
    for (nid, sites) in cfg.rule_site_map() {
        for s in sites {
            let guard = cfg
                .raw_guard(*nid)
                .map(|g| g.to_json().to_text())
                .unwrap_or_default();
            let arm = match s.arm {
                RuleArm::Rule(i) => i.to_string(),
                RuleArm::Miss => "miss".to_string(),
            };
            entries.push(format!("{}#{arm}#{guard}", s.table));
        }
    }
    entries.sort();
    entries.dedup();
    meissa_testkit::obs::ledger::content_hash_hex(entries.join("\n").as_bytes())
}

/// Measures per-rule coverage of `templates` over `cfg` (the graph the
/// template paths walk — the summarized graph for a summary run, the
/// unrolled graph for a sequence run).
///
/// The arm universe is every [`RuleArm`] site recorded in the graph —
/// including sites on nodes summarization orphaned, so rules whose every
/// path was pruned still show up as unhit rather than silently vanishing.
pub fn measure_rules(cfg: &Cfg, templates: &[TestTemplate]) -> RuleCoverage {
    let mut cov = RuleCoverage::default();
    for sites in cfg.rule_site_map().values() {
        for s in sites {
            let t = cov.tables.entry(s.table.clone()).or_default();
            match s.arm {
                RuleArm::Rule(i) => {
                    t.rules.entry(i).or_insert(0);
                }
                RuleArm::Miss => t.has_miss = true,
            }
        }
    }
    // Tally visits per node first, then fold each visited node's sites in
    // once: the table lookups scale with the graph, not the template set.
    let mut visits = vec![0u64; cfg.num_nodes()];
    for tpl in templates {
        for &n in &tpl.path {
            // A node outside the graph carries no rule site.
            if let Some(c) = visits.get_mut(n.0 as usize) {
                *c += 1;
            }
        }
    }
    for (n, sites) in cfg.rule_site_map() {
        let hits = visits[n.0 as usize];
        if hits == 0 {
            continue;
        }
        for s in sites {
            let t = cov
                .tables
                .get_mut(&s.table)
                .expect("every site's table is listed");
            match s.arm {
                RuleArm::Rule(i) => {
                    *t.rules.get_mut(&i).expect("every site's rule is listed") += hits
                }
                RuleArm::Miss => t.miss_hits += hits,
            }
        }
    }
    cov
}

/// Checks whether a template set achieves full coverage of every *valid*
/// behaviour: each statement/branch that lies on at least one valid path is
/// covered. (Statements on only-invalid paths — dead rules, unreachable
/// arms — are intentionally uncoverable by tests; the paper's Definition 3
/// quantifies over valid paths only.)
///
/// Every `valid_paths` entry must be an actual walk of `cfg`: nodes in
/// bounds and consecutive nodes joined by an edge. A claimed valid path the
/// graph does not contain makes the answer `false` — a coverage guarantee
/// checked against paths from some *other* graph would be vacuous.
pub fn full_valid_coverage(cfg: &Cfg, templates: &[TestTemplate], valid_paths: &[Vec<NodeId>]) -> bool {
    let bound = cfg.num_nodes() as u32;
    for p in valid_paths {
        if p.iter().any(|n| n.0 >= bound) {
            return false;
        }
        if p.windows(2).any(|w| !cfg.succ(w[0]).contains(&w[1])) {
            return false;
        }
    }
    let mut valid_nodes: HashSet<NodeId> = HashSet::new();
    for p in valid_paths {
        valid_nodes.extend(p.iter().copied());
    }
    let mut covered: HashSet<NodeId> = HashSet::new();
    for t in templates {
        covered.extend(t.path.iter().copied());
    }
    valid_nodes.iter().all(|n| covered.contains(n)) && templates.len() >= valid_paths.len()
        && {
            let covered_paths: HashSet<&[NodeId]> =
                templates.iter().map(|t| t.path.as_slice()).collect();
            valid_paths
                .iter()
                .all(|p| covered_paths.contains(p.as_slice()))
        }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{generate_templates, ExecConfig};
    use crate::session::SolveSession;
    use meissa_ir::{AExp, BExp, CfgBuilder, Stmt};
    use meissa_num::Bv;

    fn diamond() -> Cfg {
        let mut b = CfgBuilder::new();
        let x = b.fields_mut().intern("x", 8);
        b.nop();
        let base = b.frontier();
        let mut arms = Vec::new();
        for i in 0..3u128 {
            b.set_frontier(base.clone());
            b.stmt(Stmt::Assume(BExp::eq(
                AExp::Field(x),
                AExp::Const(Bv::new(8, i)),
            )));
            arms.push(b.frontier());
        }
        b.set_frontier(Vec::new());
        b.merge_frontiers(arms);
        b.nop();
        b.finish()
    }

    #[test]
    fn full_coverage_on_all_valid_paths() {
        let cfg = diamond();
        let mut session = SolveSession::new();
        let out = generate_templates(&cfg, &mut session, &ExecConfig::default());
        let report = measure(&cfg, &out.templates);
        assert_eq!(report.paths_covered, 3);
        assert_eq!(report.statement_ratio(), 1.0);
        assert_eq!(report.branch_ratio(), 1.0);
        let valid: Vec<Vec<NodeId>> = out.templates.iter().map(|t| t.path.clone()).collect();
        assert!(full_valid_coverage(&cfg, &out.templates, &valid));
    }

    #[test]
    fn partial_template_sets_show_partial_coverage() {
        let cfg = diamond();
        let mut session = SolveSession::new();
        let out = generate_templates(&cfg, &mut session, &ExecConfig::default());
        let partial = &out.templates[..1];
        let report = measure(&cfg, partial);
        assert_eq!(report.paths_covered, 1);
        assert!(report.statement_ratio() < 1.0);
        assert!(report.branch_ratio() < 1.0);
        let valid: Vec<Vec<NodeId>> = out.templates.iter().map(|t| t.path.clone()).collect();
        assert!(!full_valid_coverage(&cfg, partial, &valid));
    }

    #[test]
    fn empty_template_set_covers_nothing() {
        let cfg = diamond();
        let report = measure(&cfg, &[]);
        assert_eq!(report.paths_covered, 0);
        assert_eq!(report.statements_covered, 0);
        assert!(report.statements_total > 0);
    }

    #[test]
    fn full_valid_coverage_rejects_paths_not_in_the_cfg() {
        let cfg = diamond();
        let mut session = SolveSession::new();
        let out = generate_templates(&cfg, &mut session, &ExecConfig::default());
        let mut valid: Vec<Vec<NodeId>> = out.templates.iter().map(|t| t.path.clone()).collect();
        assert!(full_valid_coverage(&cfg, &out.templates, &valid));

        // Out-of-bounds node: not a path of this graph.
        let bogus_node = vec![vec![NodeId(cfg.num_nodes() as u32)]];
        assert!(!full_valid_coverage(&cfg, &out.templates, &bogus_node));

        // In-bounds nodes but no such edge (a path walked backwards).
        let mut reversed = valid[0].clone();
        reversed.reverse();
        valid.push(reversed);
        assert!(!full_valid_coverage(&cfg, &out.templates, &valid));
    }

    #[test]
    fn measure_rules_counts_hits_and_keeps_unhit_rules() {
        use meissa_ir::RuleArm;
        // Diamond with the three arms marked as rules 0/1 of table `t` plus
        // its miss arm.
        let mut b = CfgBuilder::new();
        let x = b.fields_mut().intern("x", 8);
        b.nop();
        let base = b.frontier();
        let mut arms = Vec::new();
        let mut arm_nodes = Vec::new();
        for i in 0..3u128 {
            b.set_frontier(base.clone());
            let n = b.stmt(Stmt::Assume(BExp::eq(
                AExp::Field(x),
                AExp::Const(Bv::new(8, i)),
            )));
            arm_nodes.push(n);
            arms.push(b.frontier());
        }
        b.mark_rule_site(arm_nodes[0], "t", RuleArm::Rule(0));
        b.mark_rule_site(arm_nodes[1], "t", RuleArm::Rule(1));
        b.mark_rule_site(arm_nodes[2], "t", RuleArm::Miss);
        b.set_frontier(Vec::new());
        b.merge_frontiers(arms);
        b.nop();
        let cfg = b.finish();

        let mut session = SolveSession::new();
        let out = generate_templates(&cfg, &mut session, &ExecConfig::default());
        let cov = measure_rules(&cfg, &out.templates);
        assert_eq!(cov.rules_total(), 2);
        assert_eq!(cov.rules_hit(), 2);
        assert_eq!(cov.tables_total(), 1);
        assert_eq!(cov.tables_full(), 1);
        let t = &cov.tables["t"];
        assert_eq!(t.rules[&0], 1);
        assert_eq!(t.rules[&1], 1);
        assert_eq!(t.miss_hits, 1);
        assert!(t.has_miss);

        // Dropping the rule-1 templates leaves rule 1 present but unhit.
        let partial: Vec<_> = out
            .templates
            .iter()
            .filter(|tpl| !tpl.path.contains(&arm_nodes[1]))
            .cloned()
            .collect();
        let cov = measure_rules(&cfg, &partial);
        assert_eq!(cov.rules_total(), 2, "unhit rule stays in the universe");
        assert_eq!(cov.rules_hit(), 1);
        assert_eq!(cov.tables_full(), 0);
        assert_eq!(cov.tables["t"].rules[&1], 0);
    }

    #[test]
    fn rule_coverage_encodes_the_shape_meissa_trace_reads() {
        let mut cov = RuleCoverage::default();
        let t = cov.tables.entry("acl".into()).or_default();
        t.rules.insert(0, 4);
        t.rules.insert(1, 0);
        t.miss_hits = 2;
        t.has_miss = true;
        cov.tables.entry("nat".into()).or_default();

        // `meissa-trace`'s `coverage_arms` reads exactly these keys: one
        // object per table in name order, `rules` as `[index, hits]` pairs.
        assert_eq!(
            cov.to_json().to_text(),
            r#"[{"table":"acl","rules":[[0,4],[1,0]],"miss":2,"has_miss":true},"#.to_owned()
                + r#"{"table":"nat","rules":[],"miss":0,"has_miss":false}]"#
        );
    }

    #[test]
    fn from_arm_counts_matches_measured_shape() {
        use meissa_ir::RuleArm;
        let cov = RuleCoverage::from_arm_counts(vec![
            ("t", RuleArm::Rule(0), 5),
            ("t", RuleArm::Rule(1), 0),
            ("t", RuleArm::Miss, 1),
        ]);
        assert_eq!(cov.rules_total(), 2);
        assert_eq!(cov.rules_hit(), 1);
        assert_eq!(cov.tables_full(), 0);
        assert_eq!(cov.tables["t"].miss_hits, 1);
    }

    #[test]
    fn dead_branches_do_not_block_valid_coverage() {
        // A graph with one dead branch (assume false): full valid coverage
        // is achievable even though statement coverage is < 100%.
        let mut b = CfgBuilder::new();
        let x = b.fields_mut().intern("x", 8);
        b.nop();
        let base = b.frontier();
        b.set_frontier(base.clone());
        b.stmt(Stmt::Assume(BExp::eq(
            AExp::Field(x),
            AExp::Const(Bv::new(8, 1)),
        )));
        let f1 = b.frontier();
        b.set_frontier(base);
        b.stmt(Stmt::Assume(BExp::False));
        let f2 = b.frontier();
        b.set_frontier(Vec::new());
        b.merge_frontiers(vec![f1, f2]);
        b.nop();
        let cfg = b.finish();

        let mut session = SolveSession::new();
        let out = generate_templates(&cfg, &mut session, &ExecConfig::default());
        let valid: Vec<Vec<NodeId>> = out.templates.iter().map(|t| t.path.clone()).collect();
        assert!(full_valid_coverage(&cfg, &out.templates, &valid));
        let report = measure(&cfg, &out.templates);
        assert!(report.statement_ratio() < 1.0, "dead assume is uncovered");
    }
}
